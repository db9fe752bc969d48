"""Source guard: one build check, one point check and one torsion choice, each
run in one way for every n.

The conditions for a torsion connection (a valid metric, the quaternionic
identities and, for n >= 2, the existence defect) are checked by one
function of ``qkt.qkt_connection``, ``_check``.  ``NotQKTError`` is
constructed there and nowhere else, so a second copy of the check cannot
grow beside it.  Structures are built unchecked and checked once: ``_check``
runs through ``check_at`` (a context of its own on the check points, for the
public builders ``build_qkt`` (every n), ``build_manifold`` and
``conformal_ingredients``) or in ``run_suite``'s own chunk contexts, and no
other function calls either, so no constructor checks on its own.

Points are checked where a context opens: ``QKTStructure.at`` is the one
caller of ``require_interior`` and opens every context a caller asks for.
The only other constructions of ``QKTContext`` are the contexts the library
opens on points it has already checked: a stencil context
(``QKTContext._on_stencil``) and a varying base's context at the same points
(``QKTContext.base``).  So no reader checks points on its own, and none
skips the check.

The torsion follows from the structure's record: ``QKTContext.T`` is the
one caller of the three torsion functions (``_bundle_torsion`` for n >= 2,
``_rescaled_torsion`` for n = 1 with a conformal base, ``_dual_torsion``
otherwise), so no second dispatcher can choose a torsion apart from it.
A method is named by its class, ``Class.method``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "qkt"

# callee -> the functions that may call it
ALLOWED_CALLERS = {
    "NotQKTError": {"_check"},
    "_check": {"check_at", "_run_suite"},
    "check_at": {"build_qkt", "build_manifold", "conformal_ingredients"},
    "require_interior": {"QKTStructure.at"},
    "QKTContext": {"QKTStructure.at", "QKTContext._on_stencil", "QKTContext.base"},
    "_bundle_torsion": {"QKTContext.T"},
    "_rescaled_torsion": {"QKTContext.T"},
    "_dual_torsion": {"QKTContext.T"},
}


def calls(source: str, filename: str) -> list:
    """(file, enclosing function, callee, line) of every call, by bare name or
    attribute, to a callee of ALLOWED_CALLERS; a method as ``Class.method``."""
    found = []

    def visit(node, function, cls=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                callee = child.func
                name = getattr(callee, "id", None) or getattr(callee, "attr", None)
                if name in ALLOWED_CALLERS:
                    found.append((filename, function, name, child.lineno))
            if isinstance(child, ast.ClassDef):
                visit(child, function, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{cls}.{child.name}" if cls else child.name)
            else:
                visit(child, function, cls)

    visit(ast.parse(source, filename), None)
    return found


def misplaced(found: list) -> list:
    """The calls of ``found`` from a function that ALLOWED_CALLERS does not list."""
    return [call for call in found if call[1] not in ALLOWED_CALLERS[call[2]]]


def library_calls() -> list:
    files = sorted(SRC.glob("*.py"))
    assert files
    return [call for path in files for call in calls(path.read_text(encoding="utf-8"), path.name)]


def test_guard_detects_a_second_construction():
    code = ("class NotQKTError(GeometryError):\n    pass\n"
            "def _check(ctx):\n    raise NotQKTError('a', 1.0, {})\n"
            "def build(ctx):\n"
            "    err = errors.NotQKTError('b', residual=1.0, details={})\n    raise err\n")
    assert misplaced(calls(code, "probe.py")) == [("probe.py", "build", "NotQKTError", 6)]


def test_one_not_qkt_construction_in_library():
    found = [call[:3] for call in library_calls() if call[2] == "NotQKTError"]
    assert found == [("qkt_connection.py", "_check", "NotQKTError")]


def test_guard_detects_a_builder_that_checks_on_its_own():
    code = ("def build_structure(spec):\n"
            "    struct = _flat(spec)\n"
            "    return check_at(struct) if spec.n == 1 else struct\n"
            "def _flat(spec):\n"
            "    return qkt_connection._check(QKTStructure(spec).at(center))\n"
            "def build_manifold(spec, check_points=None):\n"
            "    return check_at(build_structure(spec), check_points)\n")
    assert misplaced(calls(code, "zoo.py")) == [("zoo.py", "build_structure", "check_at", 3),
                                               ("zoo.py", "_flat", "_check", 5)]


def test_guard_detects_a_reader_that_checks_points_on_its_own():
    code = ("class QKTStructure:\n"
            "    def at(self, x, base=None):\n"
            "        self.patch.require_interior(x, self.scheme.margin)\n"
            "        return QKTContext(self, x, base)\n"
            "class Patch:\n"
            "    def at(self, x):\n"
            "        return QKTContext(self.struct, x)\n"
            "def existence_residual(patch, hyper, p, scheme):\n"
            "    patch.require_interior(p, scheme.margin)\n"
            "    return QKTContext(QKTStructure(patch, hyper, scheme), p).existence\n")
    assert misplaced(calls(code, "probe.py")) == [
        ("probe.py", "Patch.at", "QKTContext", 7),
        ("probe.py", "existence_residual", "require_interior", 9),
        ("probe.py", "existence_residual", "QKTContext", 10)]


def test_guard_detects_a_second_torsion_dispatcher():
    code = ("class QKTContext:\n"
            "    def T(self):\n"
            "        if self.struct.n >= 2:\n"
            "            return _bundle_torsion(self)\n"
            "        return _dual_torsion(self) if self.struct.base is None else _rescaled_torsion(self)\n"
            "def conformal_rescale(struct, factor):\n"
            "    return replace(struct, torsion=lambda ctx: _rescaled_torsion(ctx))\n"
            "def torsion_of(ctx):\n"
            "    return _bundle_torsion(ctx) if ctx.struct.n >= 2 else qkt_connection._dual_torsion(ctx)\n")
    assert misplaced(calls(code, "probe.py")) == [
        ("probe.py", "conformal_rescale", "_rescaled_torsion", 7),
        ("probe.py", "torsion_of", "_bundle_torsion", 9),
        ("probe.py", "torsion_of", "_dual_torsion", 9)]


def test_checks_run_only_from_their_allowed_callers():
    found = library_calls()
    assert misplaced(found) == []
    # every allowed caller still calls, so a renamed one cannot empty the guard
    assert {(function, callee) for _, function, callee, _ in found} == {
        (function, callee) for callee, functions in ALLOWED_CALLERS.items()
        for function in functions}
