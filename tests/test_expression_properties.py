"""Properties of batched expression evaluation and of the CLI on random input.

The oracle below is the scalar tree walk over ``math`` that point-array
evaluation replaced: it raises exactly where a single point has no finite
value.  Batched evaluation must agree with it row by row, and must fail
exactly when some row fails, naming the first such row.
"""

import contextlib
import io
import math

import numpy as np
from hypothesis import given, settings, strategies as st

import qkt.cli as cli
from qkt.errors import ExpressionError
from qkt.expressions import BinOp, Call, Neg, Num, Pow, Var, parse_expression

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)
FUZZ_SETTINGS = settings(derandomize=True, max_examples=12, deadline=None)

MATH = {"exp": math.exp, "ln": math.log, "sin": math.sin, "cos": math.cos, "sqrt": math.sqrt}


class OracleFailure(Exception):
    pass


def oracle(node, point) -> float:
    """Value of ``node`` at one point, by scalar float arithmetic."""
    if isinstance(node, Num):
        return node.value
    if isinstance(node, Var):
        return float(point[node.index - 1])
    if isinstance(node, Neg):
        return -oracle(node.arg, point)
    if isinstance(node, BinOp):
        a, b = oracle(node.left, point), oracle(node.right, point)
        if node.op == "+":
            return a + b
        if node.op == "-":
            return a - b
        if node.op == "*":
            return a * b
        if b == 0.0:
            raise OracleFailure("division by zero")
        return a / b
    if isinstance(node, Pow):
        x = oracle(node.base, point)
        try:
            return x ** node.exponent
        except (OverflowError, ZeroDivisionError):
            raise OracleFailure("power") from None
    if isinstance(node, Call):
        x = oracle(node.arg, point)
        try:
            return MATH[node.name](x)
        except (ValueError, OverflowError):
            raise OracleFailure(node.name) from None
    raise TypeError(node)


def oracle_value(expr, point):
    value = oracle(expr.ast, point)
    if not math.isfinite(value):
        raise OracleFailure("not finite")
    return value


# grammar text: leaves are coordinates and numbers, including ones that
# overflow, divide by zero or leave a function's domain at some rows
LEAVES = st.one_of(
    st.sampled_from(["x1", "x2", "x3", "x4"]),
    st.sampled_from(["0", "1", "2", "0.5", "3.25", "10", "700", "1e300", "1e-5"]),
)


def _grow(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(children, st.sampled_from([-3, -1, 0, 1, 2, 3, 40])).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(sorted(MATH)), children).map(lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda t: f"-({t})"),
    )


EXPRESSIONS = st.recursive(LEAVES, _grow, max_leaves=8)
COORDINATES = st.one_of(st.sampled_from([0.0, 1.0, -1.0, 0.5]),
                        st.floats(min_value=-3.0, max_value=3.0))
POINTS = st.integers(min_value=1, max_value=5).flatmap(
    lambda rows: st.lists(st.lists(COORDINATES, min_size=4, max_size=4),
                          min_size=rows, max_size=rows))


@SETTINGS
@given(EXPRESSIONS, POINTS)
def test_batched_evaluation_matches_scalar_oracle(text, rows):
    expr = parse_expression(text)
    points = np.array(rows, dtype=float)
    expected, first_bad = [], None
    for index, row in enumerate(points):
        try:
            expected.append(oracle_value(expr, row))
        except OracleFailure:
            first_bad = index if first_bad is None else first_bad
            expected.append(None)
    if first_bad is not None:
        try:
            expr(points)
        except ExpressionError as err:
            assert f"(row {first_bad})" in str(err)
            assert str([float(c) for c in points[first_bad]]) in str(err)
        else:
            raise AssertionError(f"{text!r} should fail at row {first_bad}")
        return
    values = expr(points)
    assert values.shape == (len(rows),)
    for got, want in zip(values, expected):
        if abs(want) < 1e300:
            assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12), (text, got, want)
    # a single point is the empty batch
    single = expr(points[0])
    assert np.shape(single) == () and math.isclose(single, values[0], rel_tol=1e-12, abs_tol=1e-12)


def _verify(args) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(["verify", *args, "--points", "1", "--seed", "3"])


@FUZZ_SETTINGS
@given(EXPRESSIONS)
def test_cli_classifies_random_conformal_factors(text):
    # any exception escaping cli.main would print a traceback
    assert _verify(["--manifold", "conformal_flat", "--n", "1", f"--f={text}"]) in (0, 1, 2)


@FUZZ_SETTINGS
@given(st.lists(EXPRESSIONS, min_size=4, max_size=4))
def test_cli_classifies_random_torsion_forms(parts):
    assert _verify(["--manifold", "dim4_torsion", "--n", "1", f"--t={','.join(parts)}"]) in (0, 1, 2)
